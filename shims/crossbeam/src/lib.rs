//! Offline shim of `crossbeam`, providing the `channel` module surface the
//! workspace uses: a bounded multi-producer multi-consumer channel with
//! cloneable senders *and* receivers, blocking `send`/`recv`/`recv_timeout`,
//! non-blocking `try_recv`, `len`, and a [`channel::Select`] that parks the
//! caller until one of several receivers becomes ready.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, Weak};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    /// Error returned by [`Select::ready_timeout`] when no registered
    /// receiver became ready within the timeout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReadyTimeoutError;

    struct State<T> {
        buf: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_full: Condvar,
        not_empty: Condvar,
        /// Parked [`Select`]s to wake when a message lands or the last
        /// sender leaves. Lock order: `state` before `watchers`.
        watchers: Mutex<Vec<Weak<Signal>>>,
    }

    impl<T> Inner<T> {
        /// Wakes every parked [`Select`] watching this channel, pruning
        /// watchers whose `Select` already went away.
        fn notify_watchers(&self) {
            let mut ws = self.watchers.lock().unwrap();
            ws.retain(|w| match w.upgrade() {
                Some(s) => {
                    s.notify();
                    true
                }
                None => false,
            });
        }
    }

    /// Wakeup token shared between one [`Select`] wait and the channels it
    /// watches.
    #[derive(Default)]
    struct Signal {
        fired: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        fn notify(&self) {
            *self.fired.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn reset(&self) {
            *self.fired.lock().unwrap() = false;
        }

        /// Parks until [`Signal::notify`] fires or `deadline` passes.
        fn wait_deadline(&self, deadline: Instant) {
            let mut fired = self.fired.lock().unwrap();
            while !*fired {
                let now = Instant::now();
                if now >= deadline {
                    return;
                }
                let (g, _) = self.cv.wait_timeout(fired, deadline - now).unwrap();
                fired = g;
            }
        }
    }

    /// Type-erased receiver hooks used by [`Select`].
    trait Watchable {
        fn watch(&self, signal: &Arc<Signal>);
        fn unwatch(&self, signal: &Arc<Signal>);
        /// Whether `recv` would return without blocking (data buffered, or
        /// the channel is disconnected).
        fn is_ready(&self) -> bool;
    }

    impl<T> Watchable for Receiver<T> {
        fn watch(&self, signal: &Arc<Signal>) {
            self.inner
                .watchers
                .lock()
                .unwrap()
                .push(Arc::downgrade(signal));
        }

        fn unwatch(&self, signal: &Arc<Signal>) {
            self.inner
                .watchers
                .lock()
                .unwrap()
                .retain(|w| w.upgrade().is_some_and(|s| !Arc::ptr_eq(&s, signal)));
        }

        fn is_ready(&self) -> bool {
            let s = self.inner.state.lock().unwrap();
            !s.buf.is_empty() || s.senders == 0
        }
    }

    /// Waits over several receivers at once: registers each via
    /// [`Select::recv`], then parks in [`Select::ready_timeout`] until one
    /// has a buffered message or disconnects. Readiness is a hint, as with
    /// real crossbeam: by the time the caller acts, a competing receiver
    /// clone may have taken the message, so callers must re-check with
    /// `try_recv` and re-wait.
    #[derive(Default)]
    pub struct Select<'a> {
        handles: Vec<&'a dyn Watchable>,
    }

    impl<'a> Select<'a> {
        /// Creates an empty selector.
        pub fn new() -> Self {
            Self {
                handles: Vec::new(),
            }
        }

        /// Registers a receive operation, returning its index.
        pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
            self.handles.push(r);
            self.handles.len() - 1
        }

        /// Blocks until a registered receiver is ready or `timeout`
        /// elapses, returning the ready operation's index. With no
        /// registered operations, waits out the timeout.
        ///
        /// # Errors
        ///
        /// [`ReadyTimeoutError`] if nothing became ready in time.
        pub fn ready_timeout(&self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
            let deadline = Instant::now() + timeout;
            let signal = Arc::new(Signal::default());
            loop {
                if let Some(i) = self.handles.iter().position(|h| h.is_ready()) {
                    return Ok(i);
                }
                signal.reset();
                for h in &self.handles {
                    h.watch(&signal);
                }
                // Re-check after registration: a message may have landed
                // between the poll above and the watch.
                let ready = self.handles.iter().position(|h| h.is_ready());
                if ready.is_none() && Instant::now() < deadline {
                    signal.wait_deadline(deadline);
                }
                for h in &self.handles {
                    h.unwatch(&signal);
                }
                if let Some(i) = ready {
                    return Ok(i);
                }
                if Instant::now() >= deadline {
                    return self
                        .handles
                        .iter()
                        .position(|h| h.is_ready())
                        .ok_or(ReadyTimeoutError);
                }
            }
        }
    }

    impl std::fmt::Debug for Select<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Select")
                .field("handles", &self.handles.len())
                .finish()
        }
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a bounded channel. Cloneable: clones compete
    /// for messages (MPMC), as with the real crossbeam channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates a bounded channel with capacity `cap` (at least 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                cap: cap.max(1),
                senders: 1,
                receivers: 1,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until buffer space frees, then enqueues `value`.
        ///
        /// # Errors
        ///
        /// Returns the value when every receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut s = self.inner.state.lock().unwrap();
            loop {
                if s.receivers == 0 {
                    return Err(SendError(value));
                }
                if s.buf.len() < s.cap {
                    s.buf.push_back(value);
                    self.inner.not_empty.notify_one();
                    self.inner.notify_watchers();
                    return Ok(());
                }
                s = self.inner.not_full.wait(s).unwrap();
            }
        }

        /// Messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().buf.len()
        }

        /// Whether the buffer is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Pops a message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] while senders remain;
        /// [`TryRecvError::Disconnected`] once drained and senderless.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut s = self.inner.state.lock().unwrap();
            match s.buf.pop_front() {
                Some(v) => {
                    self.inner.not_full.notify_one();
                    Ok(v)
                }
                None if s.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is drained and senderless.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut s = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = s.buf.pop_front() {
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvError);
                }
                s = self.inner.not_empty.wait(s).unwrap();
            }
        }

        /// Blocks until a message arrives or `timeout` elapses.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] once the deadline passes with the
        /// channel still empty; [`RecvTimeoutError::Disconnected`] once the
        /// channel is drained and senderless.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut s = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = s.buf.pop_front() {
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _) = self
                    .inner
                    .not_empty
                    .wait_timeout(s, deadline - now)
                    .unwrap();
                s = g;
            }
        }

        /// Whether every sender has disconnected. Buffered messages may
        /// still remain; use with [`Receiver::is_empty`] to detect an
        /// exhausted channel.
        pub fn is_disconnected(&self) -> bool {
            self.inner.state.lock().unwrap().senders == 0
        }

        /// Messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().buf.len()
        }

        /// Whether the buffer is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.inner.state.lock().unwrap();
            s.senders -= 1;
            let last = s.senders == 0;
            drop(s);
            if last {
                self.inner.not_empty.notify_all();
                self.inner.notify_watchers();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut s = self.inner.state.lock().unwrap();
            s.receivers -= 1;
            if s.receivers == 0 {
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn bounded_send_try_recv() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn blocking_send_unblocks_on_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = bounded(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(42).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(42));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn select_wakes_on_send_without_polling() {
        use std::time::{Duration, Instant};
        let (tx1, rx1) = bounded::<u32>(1);
        let (tx2, rx2) = bounded::<u32>(1);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx2.send(7).unwrap();
            std::mem::forget(tx1); // keep channel 1 alive past the test
        });
        let mut sel = Select::new();
        let i1 = sel.recv(&rx1);
        let i2 = sel.recv(&rx2);
        assert_eq!((i1, i2), (0, 1));
        let start = Instant::now();
        let ready = sel.ready_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ready, i2);
        assert!(start.elapsed() < Duration::from_secs(4), "parked, not spun");
        assert_eq!(rx2.try_recv(), Ok(7));
        h.join().unwrap();
    }

    #[test]
    fn select_reports_disconnect_and_timeout() {
        use std::time::Duration;
        let (tx, rx) = bounded::<u32>(1);
        let mut sel = Select::new();
        sel.recv(&rx);
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(5)),
            Err(ReadyTimeoutError)
        );
        assert!(!rx.is_disconnected());
        drop(tx);
        // Disconnected channels are ready: recv would not block.
        assert_eq!(sel.ready_timeout(Duration::from_millis(5)), Ok(0));
        assert!(rx.is_disconnected());
    }

    #[test]
    fn cloned_receivers_compete() {
        let (tx, rx1) = bounded(8);
        let rx2 = rx1.clone();
        for i in 0..8 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx1.try_recv() {
            got.push(v);
            if let Ok(v) = rx2.try_recv() {
                got.push(v);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }
}
