//! Minimal offline shim of [`crossbeam`](https://crates.io/crates/crossbeam):
//! the `channel` module surface this workspace uses — cloneable MPMC
//! channels (`unbounded`/`bounded`) with blocking, timed and non-blocking
//! receives, and a `Select` that waits on several receivers at once.
//!
//! # Wake rule
//!
//! A channel is one queue under one mutex plus one condition variable.
//! A receiver that finds the queue empty counts itself as parked, under
//! the lock, before it waits, and uncounts itself when it wakes. A
//! sender reads that count in the same critical section that queues its
//! value (or, for the last sender, that disconnects the channel) and
//! signals the condition variable only when the count is non-zero: with
//! std's futex-based condition variable every signal is a system call,
//! even with nobody waiting, and on a busy channel the receiver is
//! usually running, not parked. Because the count and the queue change
//! under the same lock, a receiver either sees the value before it
//! parks or is counted before the sender looks — no wake-up is lost.
//!
//! A thread in [`channel::Select`] follows the same rule: it registers
//! its thread handle with each channel, under that channel's lock, only
//! after finding the channel empty, and removes it before the select
//! returns. A sender unparks the registered threads from that critical
//! section, so only while a select is pending on the channel; unparking
//! a thread that is not parked is an atomic store, not a system call.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread::{Thread, ThreadId};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv` or `recv_timeout` right now.
        parked: usize,
        /// Threads in a [`Select`] that found this channel empty and
        /// have not returned yet.
        selecting: Vec<Thread>,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cond: Condvar,
    }

    impl<T> Chan<T> {
        /// The channel's one wake-up, called with the lock under which
        /// `ready` values were queued (`usize::MAX` when the last sender
        /// left): unparks every selecting thread and signals at most
        /// `ready` of the parked receivers, making no system call when
        /// none is parked.
        fn wake(&self, st: MutexGuard<'_, State<T>>, ready: usize) {
            if ready == 0 {
                return;
            }
            for thread in &st.selecting {
                thread.unpark();
            }
            let parked = st.parked;
            drop(st);
            match parked.min(ready) {
                0 => {}
                1 => self.cond.notify_one(),
                _ => self.cond.notify_all(),
            }
        }

        /// Waits on the condition variable (at most `timeout`, if set),
        /// counted as parked meanwhile.
        fn park<'a>(
            &self,
            mut st: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            st.parked += 1;
            st = match timeout {
                None => self.cond.wait(st).unwrap(),
                Some(left) => self.cond.wait_timeout(st, left).unwrap().0,
            };
            st.parked -= 1;
            st
        }
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
                parked: 0,
                selecting: Vec::new(),
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
                // Every parked receiver must see the disconnection.
                self.chan.wake(st, usize::MAX);
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
            self.chan.wake(st, 1);
            Ok(())
        }

        /// Enqueues every item of `values` under a single lock with at
        /// most one wake-up, and returns how many were queued. Not part
        /// of the real crossbeam API — a batching extension for hot paths
        /// where per-item `send` would pay one lock and one wake-up
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
            self.chan.wake(st, n);
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
                st = self.chan.park(st, None);
            }
        }

        /// How many receivers of this channel are blocked right now.
        #[cfg(test)]
        pub(crate) fn parked(&self) -> usize {
            self.chan.state.lock().unwrap().parked
        }

        /// How many threads are selecting on this channel right now.
        #[cfg(test)]
        pub(crate) fn selecting(&self) -> usize {
            self.chan.state.lock().unwrap().selecting.len()
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
                st = self.chan.park(st, Some(deadline - now));
            }
        }
    }

    /// Error returned by [`Select::ready_timeout`] when no operation
    /// became ready in time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReadyTimeoutError;

    impl std::fmt::Display for ReadyTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("timed out waiting on ready operation")
        }
    }

    impl std::error::Error for ReadyTimeoutError {}

    /// A receiver as [`Select`] sees it, whatever its value type.
    trait Selectable {
        /// Whether a receive would not block (a value is queued or the
        /// channel is disconnected); if it would, registers `thread` to
        /// be unparked by the next send or disconnection.
        fn ready_or_register(&self, thread: &Thread) -> bool;

        /// Removes `thread`'s registration and says whether a receive
        /// would now not block.
        fn unregister(&self, thread: ThreadId) -> bool;
    }

    impl<T> Selectable for Receiver<T> {
        fn ready_or_register(&self, thread: &Thread) -> bool {
            let mut st = self.chan.state.lock().unwrap();
            let ready = !st.queue.is_empty() || st.senders == 0;
            if !ready {
                st.selecting.push(thread.clone());
            }
            ready
        }

        fn unregister(&self, thread: ThreadId) -> bool {
            let mut st = self.chan.state.lock().unwrap();
            if let Some(at) = st.selecting.iter().position(|t| t.id() == thread) {
                st.selecting.swap_remove(at);
            }
            !st.queue.is_empty() || st.senders == 0
        }
    }

    /// Waits until one of several receivers is ready: the subset of the
    /// real crate's `Select` that registers receive operations and waits
    /// for readiness. It receives nothing itself; the caller receives
    /// from the ready channel (a `try_recv` may still find it empty when
    /// another receiver took the value first).
    #[derive(Default)]
    pub struct Select<'a> {
        handles: Vec<&'a dyn Selectable>,
    }

    impl<'a> Select<'a> {
        /// A select over no operations yet.
        #[must_use]
        pub fn new() -> Select<'a> {
            Select::default()
        }

        /// Adds a receive operation on `r` and returns its index.
        pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
            self.handles.push(r);
            self.handles.len() - 1
        }

        /// Blocks up to `timeout` until a receive on one of the
        /// registered receivers would not block, and returns the index of
        /// the first such operation.
        ///
        /// # Errors
        ///
        /// [`ReadyTimeoutError`] when none became ready in time.
        pub fn ready_timeout(&mut self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
            let deadline = Instant::now() + timeout;
            let me = std::thread::current();
            loop {
                // Register with each channel in turn until one is ready.
                let mut ready = None;
                let mut registered = 0;
                for (i, handle) in self.handles.iter().enumerate() {
                    if handle.ready_or_register(&me) {
                        ready = Some(i);
                        break;
                    }
                    registered += 1;
                }
                if ready.is_none() {
                    if let Some(left) = deadline.checked_duration_since(Instant::now()) {
                        std::thread::park_timeout(left);
                    }
                }
                for (i, handle) in self.handles[..registered].iter().enumerate() {
                    if handle.unregister(me.id()) && ready.is_none() {
                        ready = Some(i);
                    }
                }
                if let Some(i) = ready {
                    return Ok(i);
                }
                if Instant::now() >= deadline {
                    return Err(ReadyTimeoutError);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::channel::{
        unbounded, ReadyTimeoutError, Receiver, RecvError, Select, Sender, TryRecvError,
    };
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// Waits until `n` receivers of `rx`'s channel are blocked.
    fn await_parked<T>(rx: &Receiver<T>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while rx.parked() != n {
            assert!(Instant::now() < deadline, "{n} receivers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Joins `thread` once it has finished, failing if it has not by
    /// `deadline`.
    fn join_by<T>(thread: JoinHandle<T>, deadline: Instant, why: &str) -> T {
        while !thread.is_finished() {
            assert!(Instant::now() < deadline, "{why}");
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join().expect("test thread")
    }

    /// A thread blocked in `recv`, returning what that `recv` returns.
    type Parked = JoinHandle<Result<u32, RecvError>>;

    /// A channel with one receiver thread already blocked in `recv`.
    fn parked_recv() -> (Sender<u32>, Receiver<u32>, Parked) {
        let (tx, rx) = unbounded::<u32>();
        let parked_rx = rx.clone();
        let parked = std::thread::spawn(move || parked_rx.recv());
        await_parked(&rx, 1);
        (tx, rx, parked)
    }

    /// What the parked `recv` returned; fails if it is not woken within
    /// 5 s.
    fn woken(parked: Parked) -> Result<u32, RecvError> {
        let deadline = Instant::now() + Duration::from_secs(5);
        join_by(parked, deadline, "the parked receiver was never woken")
    }

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
    fn send_wakes_a_parked_receiver() {
        let (tx, _rx, parked) = parked_recv();
        tx.send(3).unwrap();
        assert_eq!(woken(parked), Ok(3));
    }

    #[test]
    fn send_many_wakes_a_parked_receiver() {
        let (tx, rx, parked) = parked_recv();
        assert_eq!(tx.send_many([4, 5]), Ok(2));
        assert_eq!(woken(parked), Ok(4));
        assert_eq!(rx.try_recv(), Ok(5));
    }

    #[test]
    fn last_sender_drop_wakes_a_parked_receiver() {
        let (tx, rx, parked) = parked_recv();
        drop(tx.clone());
        // A sender remains, so the receiver is still parked.
        assert_eq!(rx.parked(), 1);
        drop(tx);
        assert_eq!(woken(parked), Err(RecvError));
    }

    #[test]
    fn recv_timeout_returns_a_value_sent_before_its_deadline() {
        let (tx, rx) = unbounded::<u32>();
        let timed_rx = rx.clone();
        let start = Instant::now();
        let timed = std::thread::spawn(move || timed_rx.recv_timeout(Duration::from_secs(30)));
        await_parked(&rx, 1);
        tx.send(9).unwrap();
        let deadline = start + Duration::from_secs(10);
        let got = join_by(timed, deadline, "recv_timeout slept through the send");
        assert_eq!(got, Ok(9));
    }

    /// Four producers and two cloned receivers, both blocked in `recv`
    /// when the sends begin: every value arrives exactly once.
    #[test]
    fn every_value_reaches_one_parked_receiver() {
        const PRODUCERS: u32 = 4;
        const SENDS: u32 = 20_000;
        let (tx, rx) = unbounded::<u32>();
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        await_parked(&rx, 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for k in 0..SENDS {
                        tx.send(p * SENDS + k).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for producer in producers {
            join_by(producer, deadline, "a producer stalled");
        }
        let mut all: Vec<u32> = receivers
            .into_iter()
            .flat_map(|r| join_by(r, deadline, "a receiver stalled"))
            .collect();
        all.sort_unstable();
        assert!(
            all.iter().copied().eq(0..PRODUCERS * SENDS),
            "lost or duplicated values"
        );
    }

    /// A thread selecting on three channels, returning what its
    /// `ready_timeout` returns.
    type Selecting = JoinHandle<Result<usize, ReadyTimeoutError>>;

    /// Three channels with one thread already registered on all of them
    /// in a select that waits up to 30 s.
    fn selecting_on_three() -> (Vec<Sender<u32>>, Vec<Receiver<u32>>, Selecting) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded::<u32>()).unzip();
        let selected = rxs.clone();
        let selecting = std::thread::spawn(move || {
            let mut sel = Select::new();
            for rx in &selected {
                sel.recv(rx);
            }
            sel.ready_timeout(Duration::from_secs(30))
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while rxs.iter().any(|rx| rx.selecting() != 1) {
            assert!(Instant::now() < deadline, "the select never registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        (txs, rxs, selecting)
    }

    /// What the pending select returned; fails if it is not woken within
    /// 5 s. Its registrations are gone by then.
    fn selected(selecting: Selecting, rxs: &[Receiver<u32>]) -> Result<usize, ReadyTimeoutError> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = join_by(selecting, deadline, "the selecting thread was never woken");
        assert!(rxs.iter().all(|rx| rx.selecting() == 0));
        got
    }

    #[test]
    fn send_to_any_selected_channel_wakes_the_select() {
        for k in 0..3 {
            let (txs, rxs, selecting) = selecting_on_three();
            txs[k].send(3).unwrap();
            assert_eq!(selected(selecting, &rxs), Ok(k));
            assert_eq!(rxs[k].try_recv(), Ok(3));
        }
    }

    #[test]
    fn send_many_to_any_selected_channel_wakes_the_select() {
        for k in 0..3 {
            let (txs, rxs, selecting) = selecting_on_three();
            assert_eq!(txs[k].send_many([4, 5]), Ok(2));
            assert_eq!(selected(selecting, &rxs), Ok(k));
        }
    }

    #[test]
    fn last_sender_drop_on_any_selected_channel_wakes_the_select() {
        for k in 0..3 {
            let (mut txs, rxs, selecting) = selecting_on_three();
            drop(txs[k].clone());
            // A sender remains, so the select is still pending.
            assert_eq!(rxs[k].selecting(), 1);
            drop(txs.remove(k));
            assert_eq!(selected(selecting, &rxs), Ok(k));
            assert_eq!(rxs[k].try_recv(), Err(TryRecvError::Disconnected));
        }
    }

    #[test]
    fn ready_timeout_times_out_when_nothing_arrives() {
        let (_txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded::<u32>()).unzip();
        let mut sel = Select::new();
        for rx in &rxs {
            sel.recv(rx);
        }
        let start = Instant::now();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(50)),
            Err(ReadyTimeoutError)
        );
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert!(rxs.iter().all(|rx| rx.selecting() == 0));
    }

    /// Four producers spread their values over three channels; one
    /// consumer selects on all three and drains whichever is ready:
    /// every value arrives exactly once.
    #[test]
    fn every_value_reaches_one_selecting_consumer() {
        const PRODUCERS: u32 = 4;
        const SENDS: u32 = 20_000;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded::<u32>()).unzip();
        let deadline = Instant::now() + Duration::from_secs(10);
        let consumer = std::thread::spawn(move || {
            let mut live = rxs;
            let mut got = Vec::new();
            while !live.is_empty() {
                let mut sel = Select::new();
                for rx in &live {
                    sel.recv(rx);
                }
                let i = sel.ready_timeout(Duration::from_secs(10)).expect("ready");
                loop {
                    match live[i].try_recv() {
                        Ok(v) => got.push(v),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            drop(sel);
                            live.remove(i);
                            break;
                        }
                    }
                }
            }
            got
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let txs = txs.clone();
                std::thread::spawn(move || {
                    for k in 0..SENDS {
                        txs[k as usize % 3].send(p * SENDS + k).unwrap();
                    }
                })
            })
            .collect();
        drop(txs);
        for producer in producers {
            join_by(producer, deadline, "a producer stalled");
        }
        let mut all = join_by(consumer, deadline, "the consumer stalled");
        all.sort_unstable();
        assert!(
            all.iter().copied().eq(0..PRODUCERS * SENDS),
            "lost or duplicated values"
        );
    }
}
