//! Mpsc channels built on the [`crate::sync`] facade.
//!
//! A drop-in replacement for the slice of `std::sync::mpsc` the serving layer
//! uses (unbounded [`channel`], bounded [`sync_channel`], `send` / `try_send` /
//! `recv` / `try_recv` / `recv_timeout`, disconnect-on-drop) — implemented on
//! the facade's `Mutex` + `Condvar` instead of std's private queue, so that
//! under the `loom-model` feature every enqueue, dequeue and wakeup is an
//! instrumented scheduling point and the whole submit/serve/shutdown handshake
//! of [`crate::ServeFront`] is visible to the model checker.
//!
//! Two rules keep the per-message cost down to one uncontended lock:
//!
//! * **Wake only parked threads.** A receiver counts itself in
//!   `parked_receivers` (a bounded sender in `parked_senders`) under the queue
//!   lock before it waits and uncounts itself after it wakes. An enqueue
//!   notifies `not_empty` (a dequeue `not_full`) only when the count it reads
//!   under the same lock is non-zero, so an uncontended send or receive makes no
//!   wake syscall. Any thread in a wait set was counted before it released the
//!   lock, so a notify is skipped only when nobody can be waiting. Disconnects
//!   still `notify_all` unconditionally.
//! * **Drain in one lock.** [`Receiver::recv_batch`] blocks for the first
//!   message and then moves up to `max` queued messages out under the same
//!   lock, so a consumer that works in batches pays one round-trip per batch,
//!   not one per message.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

/// An unbounded channel: sends never block.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared::new(None));
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// A bounded channel: sends block (or [`SyncSender::try_send`] pushes back)
/// while `capacity` messages are queued.
pub fn sync_channel<T>(capacity: usize) -> (SyncSender<T>, Receiver<T>) {
    let shared = Arc::new(Shared::new(Some(capacity.max(1))));
    (SyncSender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// The sending half of an unbounded [`channel`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The sending half of a bounded [`sync_channel`].
pub struct SyncSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of either channel flavour.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The message, handed back because the receiver disconnected.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a [`SyncSender::try_send`] did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the message is handed back.
    Full(T),
    /// The receiver disconnected; the message is handed back.
    Disconnected(T),
}

/// Every sender disconnected and the queue is drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Why a [`Receiver::try_recv`] returned no message.
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is momentarily empty.
    Empty,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

/// Why a [`Receiver::recv_timeout`] returned no message.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// Every sender disconnected and the queue is drained.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Receivers waiting on `not_empty` (counted before the wait, uncounted
    /// after the wake, both under this lock).
    parked_receivers: usize,
    /// Bounded senders waiting on `not_full`, counted the same way.
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    /// Signalled on an enqueue a parked receiver waits for, and on last-sender
    /// disconnect.
    not_empty: Condvar,
    /// Signalled on a dequeue a parked bounded sender waits for, and on
    /// receiver disconnect.
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn new(capacity: Option<usize>) -> Shared<T> {
        Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("channel poisoned")
    }

    /// The parked-receiver count read in a critical section of its own, before
    /// the send takes the lock it enqueues under. Only the `mutant-lost-wakeup`
    /// feature reads it: a receiver that parks in between is never woken, the
    /// check-then-act race the wake rule exists to avoid.
    fn parked_receivers_early(&self) -> Option<usize> {
        cfg!(feature = "mutant-lost-wakeup").then(|| self.lock().parked_receivers)
    }

    /// Appends `value`, releases the lock, and wakes one receiver if one is
    /// parked.
    fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T, parked_early: Option<usize>) {
        st.queue.push_back(value);
        let parked = parked_early.unwrap_or(st.parked_receivers);
        drop(st);
        if parked > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Moves up to `max` (at least one) queued messages into `out`, then
    /// releases the lock as [`Shared::after_pop`] does. Returns how many moved.
    fn pop_batch(&self, mut st: MutexGuard<'_, State<T>>, out: &mut Vec<T>, max: usize) -> usize {
        let taken = st.queue.len().min(max.max(1));
        out.extend(st.queue.drain(..taken));
        self.after_pop(st, taken);
        taken
    }

    /// Releases the lock after `taken` messages were dequeued and wakes parked
    /// bounded senders: one for one freed slot, all of them for several.
    fn after_pop(&self, st: MutexGuard<'_, State<T>>, taken: usize) {
        let parked = st.parked_senders;
        drop(st);
        if parked == 0 || taken == 0 {
            return;
        }
        if taken > 1 && parked > 1 {
            self.not_full.notify_all();
        } else {
            self.not_full.notify_one();
        }
    }

    /// Waits on `not_empty`, counted as a parked receiver for the duration.
    fn park_receiver<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        st.parked_receivers += 1;
        let mut st = self.not_empty.wait(st).expect("channel poisoned");
        st.parked_receivers -= 1;
        st
    }

    fn drop_sender(&self) {
        let mut st = self.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake the receiver so a blocked `recv` observes the disconnect.
            self.not_empty.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`; `Err` hands it back if the receiver disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let parked_early = self.shared.parked_receivers_early();
        let st = self.shared.lock();
        if !st.receiver_alive {
            return Err(SendError(value));
        }
        self.shared.push(st, value, parked_early);
        Ok(())
    }
}

impl<T> SyncSender<T> {
    /// Enqueues `value`, blocking while the queue is at capacity; `Err` hands
    /// it back if the receiver disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let capacity = self.shared.capacity.expect("sync_channel always has a capacity");
        let parked_early = self.shared.parked_receivers_early();
        let mut st = self.shared.lock();
        while st.receiver_alive && st.queue.len() >= capacity {
            st.parked_senders += 1;
            st = self.shared.not_full.wait(st).expect("channel poisoned");
            st.parked_senders -= 1;
        }
        if !st.receiver_alive {
            return Err(SendError(value));
        }
        self.shared.push(st, value, parked_early);
        Ok(())
    }

    /// Enqueues `value` without blocking; a full queue or a disconnected
    /// receiver hands it back.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let capacity = self.shared.capacity.expect("sync_channel always has a capacity");
        let parked_early = self.shared.parked_receivers_early();
        let st = self.shared.lock();
        if !st.receiver_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() >= capacity {
            return Err(TrySendError::Full(value));
        }
        self.shared.push(st, value, parked_early);
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking until one arrives; `Err` once every
    /// sender disconnected and the queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(value) = st.queue.pop_front() {
                self.shared.after_pop(st, 1);
                return Ok(value);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.shared.park_receiver(st);
        }
    }

    /// Blocks for the first message, then moves it and every message queued
    /// behind it, up to `max` in all (at least one), into `out` under the same
    /// lock. Returns how many were moved; `Err` once every sender disconnected
    /// and the queue is drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        let mut st = self.shared.lock();
        while st.queue.is_empty() {
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.shared.park_receiver(st);
        }
        Ok(self.shared.pop_batch(st, out, max))
    }

    /// [`Receiver::recv_batch`] without blocking: `Ok(0)` while the queue is
    /// momentarily empty.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        let st = self.shared.lock();
        if st.queue.is_empty() && st.senders == 0 {
            return Err(RecvError);
        }
        Ok(self.shared.pop_batch(st, out, max))
    }

    /// Dequeues without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        if let Some(value) = st.queue.pop_front() {
            self.shared.after_pop(st, 1);
            return Ok(value);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// [`Receiver::recv`] with a deadline of `now + timeout`. (Under the
    /// `loom-model` feature timeouts never fire — model schedules are untimed —
    /// so models must not rely on a timeout for progress.)
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if let Some(value) = st.queue.pop_front() {
                self.shared.after_pop(st, 1);
                return Ok(value);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(remaining) =
                deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            st.parked_receivers += 1;
            let (guard, timed_out) =
                self.shared.not_empty.wait_timeout(st, remaining).expect("channel poisoned");
            st = guard;
            st.parked_receivers -= 1;
            if timed_out.timed_out() && st.queue.is_empty() && st.senders > 0 {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Clone for SyncSender<T> {
    fn clone(&self) -> SyncSender<T> {
        self.shared.lock().senders += 1;
        SyncSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.drop_sender();
    }
}

impl<T> Drop for SyncSender<T> {
    fn drop(&mut self) {
        self.shared.drop_sender();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receiver_alive = false;
        drop(st);
        // Wake blocked bounded senders so they observe the disconnect.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));

        let (stx, srx) = sync_channel::<u32>(1);
        drop(srx);
        assert_eq!(stx.send(9), Err(SendError(9)));
        assert_eq!(stx.try_send(9), Err(TrySendError::Disconnected(9)));
    }

    #[test]
    fn bounded_try_send_pushes_back_when_full() {
        let (tx, rx) = sync_channel::<u32>(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = sync_channel::<u32>(1);
        tx.send(1).unwrap();
        let producer = std::thread::spawn(move || tx.send(2));
        // The producer is blocked on the full queue until this recv.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        producer.join().unwrap().unwrap();
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(5));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn recv_batch_respects_max() {
        let (tx, rx) = channel::<u32>();
        for v in 1..=5 {
            tx.send(v).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got, 2), Ok(2));
        assert_eq!(got, [1, 2]);
        assert_eq!(rx.recv_batch(&mut got, 2), Ok(2));
        assert_eq!(got, [1, 2, 3, 4]);
        // A `max` of 0 still takes one message; a larger one takes what is queued.
        assert_eq!(rx.recv_batch(&mut got, 0), Ok(1));
        assert_eq!(got, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn recv_batch_blocks_for_the_first_message() {
        let (tx, rx) = channel::<u32>();
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            let taken = rx.recv_batch(&mut got, 8);
            (taken, got, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(20));
        let sent_at = Instant::now();
        tx.send(5).unwrap();
        let (taken, got, returned_at) = consumer.join().unwrap();
        assert_eq!((taken, got), (Ok(1), vec![5]));
        assert!(returned_at >= sent_at, "recv_batch returned before anything was sent");
    }

    #[test]
    fn recv_batch_drains_past_a_disconnect_then_errs() {
        let (tx, rx) = channel::<u32>();
        for v in 1..=3 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got, 10), Ok(3));
        assert_eq!(got, [1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut got, 10), Err(RecvError));
        assert_eq!(rx.try_recv_batch(&mut got, 10), Err(RecvError));
    }

    #[test]
    fn recv_batch_wakes_a_blocked_sync_sender() {
        let (tx, rx) = sync_channel::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // The queue is full: this send parks until the drain below.
        let producer = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(Duration::from_millis(20));
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got, 8), Ok(2));
        assert_eq!(rx.recv_batch(&mut got, 8), Ok(1));
        assert_eq!(got, [1, 2, 3]);
        producer.join().unwrap().unwrap();
    }

    #[test]
    fn try_recv_batch_never_blocks() {
        let (tx, rx) = channel::<u32>();
        let mut got = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut got, 4), Ok(0));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv_batch(&mut got, 4), Ok(2));
        assert_eq!(got, [1, 2]);
        drop(tx);
        assert_eq!(rx.try_recv_batch(&mut got, 4), Err(RecvError));
    }

    #[test]
    fn drained_messages_survive_sender_disconnect() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
