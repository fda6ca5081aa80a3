//! Minimal offline shim of [`crossbeam`](https://crates.io/crates/crossbeam):
//! the `channel` module surface this workspace uses — cloneable MPMC
//! channels (`unbounded`/`bounded`), one-shot timer receivers
//! (`after`/`never`) and a polling `select!` macro.
//!
//! `select!` polls its arms rather than registering wakers: ready arms are
//! chosen by rotation (so none starves), operands are evaluated once, and
//! idle rounds back off exponentially (10 µs → 1 ms). At the millisecond
//! timer granularity the runtime uses, the observable behaviour matches
//! the real macro.

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

    enum Kind<T> {
        Chan(Arc<Chan<T>>),
        Timer {
            deadline: Instant,
            value: Arc<Mutex<Option<T>>>,
        },
        Never,
    }

    /// The receiving half of a channel (cloneable: clones share the queue).
    pub struct Receiver<T> {
        kind: Kind<T>,
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
            Receiver {
                kind: Kind::Chan(chan),
            },
        )
    }

    /// A bounded channel. This shim does not enforce the capacity (sends
    /// never block); the workspace only uses small rendezvous replies where
    /// the distinction is unobservable.
    #[must_use]
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    /// A receiver that yields the fire time once, `dur` from now.
    #[must_use]
    pub fn after(dur: Duration) -> Receiver<Instant> {
        let deadline = Instant::now() + dur;
        Receiver {
            kind: Kind::Timer {
                deadline,
                value: Arc::new(Mutex::new(Some(deadline))),
            },
        }
    }

    /// A receiver that never yields.
    #[must_use]
    pub fn never<T>() -> Receiver<T> {
        Receiver { kind: Kind::Never }
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
            let kind = match &self.kind {
                Kind::Chan(chan) => {
                    chan.state.lock().unwrap().receivers += 1;
                    Kind::Chan(Arc::clone(chan))
                }
                Kind::Timer { deadline, value } => Kind::Timer {
                    deadline: *deadline,
                    value: Arc::clone(value),
                },
                Kind::Never => Kind::Never,
            };
            Receiver { kind }
        }
    }

    impl<T> Drop for Receiver<T> {
        /// The last receiver to go discards whatever is still queued, as
        /// the real crate does: a reply sender parked in a dead channel
        /// must not keep its caller waiting forever.
        fn drop(&mut self) {
            if let Kind::Chan(chan) = &self.kind {
                let orphans = {
                    let mut st = chan.state.lock().unwrap();
                    st.receivers -= 1;
                    if st.receivers == 0 {
                        std::mem::take(&mut st.queue)
                    } else {
                        VecDeque::new()
                    }
                };
                // Dropped outside the lock: a queued value may hold a
                // sender of this very channel.
                drop(orphans);
            }
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
            match &self.kind {
                Kind::Chan(chan) => {
                    let mut st = chan.state.lock().unwrap();
                    loop {
                        if let Some(v) = st.queue.pop_front() {
                            return Ok(v);
                        }
                        if st.senders == 0 {
                            return Err(RecvError);
                        }
                        st = chan.cond.wait(st).unwrap();
                    }
                }
                Kind::Timer { deadline, value } => {
                    loop {
                        let now = Instant::now();
                        if now >= *deadline {
                            break;
                        }
                        std::thread::sleep(*deadline - now);
                    }
                    match value.lock().unwrap().take() {
                        Some(v) => Ok(v),
                        // A fired timer never yields again; park forever.
                        None => loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        },
                    }
                }
                Kind::Never => loop {
                    std::thread::sleep(Duration::from_secs(3600));
                },
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.poll() {
                Some(Ok(v)) => Ok(v),
                Some(Err(RecvError)) => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match &self.kind {
                Kind::Chan(chan) => {
                    let deadline = Instant::now() + timeout;
                    let mut st = chan.state.lock().unwrap();
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
                        let (guard, _) = chan.cond.wait_timeout(st, deadline - now).unwrap();
                        st = guard;
                    }
                }
                Kind::Timer { deadline, value } => {
                    let give_up = Instant::now() + timeout;
                    loop {
                        let now = Instant::now();
                        if now >= *deadline {
                            return match value.lock().unwrap().take() {
                                Some(v) => Ok(v),
                                None => Err(RecvTimeoutError::Timeout),
                            };
                        }
                        if now >= give_up {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        std::thread::sleep((*deadline - now).min(give_up - now));
                    }
                }
                Kind::Never => {
                    std::thread::sleep(timeout);
                    Err(RecvTimeoutError::Timeout)
                }
            }
        }

        /// Select support: whether [`Receiver::poll`] would (very likely)
        /// yield now, without consuming anything. Used by the
        /// [`select!`](crate::select) macro; not part of the real crossbeam
        /// API.
        #[doc(hidden)]
        pub fn is_ready(&self) -> bool {
            match &self.kind {
                Kind::Chan(chan) => {
                    let st = chan.state.lock().unwrap();
                    !st.queue.is_empty() || st.senders == 0
                }
                Kind::Timer { deadline, value } => {
                    Instant::now() >= *deadline && value.lock().unwrap().is_some()
                }
                Kind::Never => false,
            }
        }

        /// Select support: `Some(Ok(v))` if a value is ready, `Some(Err)` if
        /// disconnected, `None` if the arm is not ready. Used by the
        /// [`select!`](crate::select) macro; not part of the real crossbeam
        /// API.
        #[doc(hidden)]
        pub fn poll(&self) -> Option<Result<T, RecvError>> {
            match &self.kind {
                Kind::Chan(chan) => {
                    let mut st = chan.state.lock().unwrap();
                    if let Some(v) = st.queue.pop_front() {
                        Some(Ok(v))
                    } else if st.senders == 0 {
                        Some(Err(RecvError))
                    } else {
                        None
                    }
                }
                Kind::Timer { deadline, value } => {
                    if Instant::now() >= *deadline {
                        value.lock().unwrap().take().map(Ok)
                    } else {
                        None
                    }
                }
                Kind::Never => None,
            }
        }
    }

    /// Rotation counter for [`select!`](crate::select) fairness: successive
    /// selects start from different ready arms, approximating crossbeam's
    /// uniform-random choice (declaration-order priority would let a
    /// flooded first arm starve the rest, e.g. a timer arm).
    #[doc(hidden)]
    #[must_use]
    pub fn next_rotation() -> usize {
        static ROTATION: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        ROTATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    pub use crate::select;
}

/// Polling replacement for crossbeam's `select!`. Semantics kept from the
/// real macro: each `recv` operand is evaluated exactly once, a ready arm
/// yields `Result<T, RecvError>`, and when several arms are ready the
/// choice rotates between them (fairness) instead of favouring declaration
/// order. When nothing is ready it sleeps with exponential backoff
/// (10 µs → 1 ms), so idle select loops cost ~1k polls/s instead of
/// spinning.
#[macro_export]
macro_rules! select {
    ($(recv($r:expr) -> $pat:pat => $body:expr),+ $(,)?) => {
        $crate::__select_impl!(@bind () $(recv($r) -> $pat => $body,)+)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __select_impl {
    // Bind each operand exactly once. Macro hygiene makes every
    // expansion's `__op` a distinct binding, so collecting the token into
    // the accumulator keeps them all addressable in the @run step.
    (@bind ($($acc:tt)*) recv($r:expr) -> $pat:pat => $body:expr, $($rest:tt)*) => {{
        let __op = &$r;
        $crate::__select_impl!(@bind ($($acc)* (__op, $pat, $body)) $($rest)*)
    }};
    (@bind ($($acc:tt)*)) => {
        $crate::__select_impl!(@run $($acc)*)
    };
    (@run $(($op:ident, $pat:pat, $body:expr))+) => {{
        let mut __backoff_us = 10u64;
        'select: loop {
            let __ready = [$($crate::channel::Receiver::is_ready($op)),+];
            let __n_ready = __ready.iter().filter(|b| **b).count();
            if __n_ready > 0 {
                let __pick = $crate::channel::next_rotation() % __n_ready;
                let mut __nth_ready = 0usize;
                let mut __arm = 0usize;
                $(
                    if __ready[__arm] {
                        if __nth_ready == __pick {
                            if let ::core::option::Option::Some(__res) =
                                $crate::channel::Receiver::poll($op)
                            {
                                let $pat = __res;
                                break 'select $body;
                            }
                            // Raced empty between is_ready and poll; fall
                            // through and re-scan immediately.
                        }
                        __nth_ready += 1;
                    }
                    __arm += 1;
                )+
                let _ = (__nth_ready, __arm);
                __backoff_us = 10;
                continue 'select;
            }
            ::std::thread::sleep(::std::time::Duration::from_micros(__backoff_us));
            __backoff_us = (__backoff_us * 2).min(1_000);
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::channel::{after, unbounded};
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

    #[test]
    fn select_timer_fires_when_channel_is_quiet() {
        let (_keep_alive, rx) = unbounded::<u32>();
        let timer = after(Duration::from_millis(5));
        let timer_won = crate::select! {
            recv(rx) -> _msg => false,
            recv(timer) -> _t => true,
        };
        assert!(timer_won);
    }

    #[test]
    fn select_does_not_starve_later_arms() {
        let (t1, r1) = unbounded();
        let (t2, r2) = unbounded();
        for _ in 0..64 {
            t1.send(0usize).unwrap();
            t2.send(1usize).unwrap();
        }
        let mut hits = [0u32; 2];
        for _ in 0..32 {
            let arm = crate::select! {
                recv(r1) -> m => m.unwrap(),
                recv(r2) -> m => m.unwrap(),
            };
            hits[arm] += 1;
        }
        // Both arms stay ready throughout; rotation must reach the second.
        assert!(hits[0] > 0 && hits[1] > 0, "starved an arm: {hits:?}");
    }

    #[test]
    fn select_evaluates_operands_once() {
        // With per-round re-evaluation this would build a fresh timer every
        // poll and never fire.
        let fired = crate::select! {
            recv(after(Duration::from_millis(3))) -> _t => true,
        };
        assert!(fired);
    }
}
