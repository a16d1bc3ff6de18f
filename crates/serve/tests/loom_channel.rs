//! Loom models of the channel's wake protocol.
//!
//! A send notifies `not_empty` only when it reads a non-zero parked-receiver
//! count under the queue lock it enqueues under, and a dequeue notifies
//! `not_full` only when a bounded sender is parked. These models check that
//! skipping the other notifies never strands a parked thread:
//!
//! 1. **Parked receiver** — a receiver in [`Receiver::recv_batch`] on an empty
//!    unbounded channel receives a message sent from another thread while a
//!    second sender keeps the channel open (so no disconnect can rescue a
//!    missed wake), and then sees `Err` once the last sender drops.
//! 2. **Parked bounded sender** — a sender blocked on a full queue proceeds
//!    once `recv_batch` drains it.
//!
//! The `mutant-lost-wakeup` feature makes the sender read the parked-receiver
//! count before it takes the queue lock; the receiver can then park in between
//! and is never woken, so model 1 deadlocks.
//!
//! Run with `cargo test -p rnknn-serve --features loom-model`; see
//! docs/CORRECTNESS.md for the mutant matrix.
//!
//! [`Receiver::recv_batch`]: rnknn_serve::Receiver::recv_batch

#![cfg(feature = "loom-model")]

use rnknn_serve::channel::{channel, sync_channel, RecvError};
use rnknn_serve::sync::thread;

/// Model 1: a parked `recv_batch` is woken by a send and later by the last
/// sender's disconnect.
#[test]
fn parked_receiver_is_woken_by_a_send_and_then_by_disconnect() {
    loom::model(|| {
        let (tx, rx) = channel::<u32>();
        let keep_open = tx.clone();
        let sender = thread::spawn(move || tx.send(7).expect("receiver alive"));
        let mut got = Vec::new();
        // `keep_open` is still alive, so only the send's own wake can end a
        // park here.
        assert_eq!(rx.recv_batch(&mut got, 4), Ok(1));
        assert_eq!(got, [7]);
        let closer = thread::spawn(move || drop(keep_open));
        assert_eq!(rx.recv_batch(&mut got, 4), Err(RecvError));
        sender.join().expect("sender");
        closer.join().expect("closer");
        assert_eq!(got, [7]);
    });
}

/// Model 2: a bounded sender parked on a full queue proceeds once `recv_batch`
/// drains it.
#[test]
fn parked_bounded_sender_proceeds_once_recv_batch_drains() {
    loom::model(|| {
        let (tx, rx) = sync_channel::<u32>(1);
        tx.send(1).expect("receiver alive");
        let keep_open = tx.clone();
        // The queue is full: this send parks until a dequeue frees the slot.
        let sender = thread::spawn(move || tx.send(2).expect("receiver alive"));
        let mut got = Vec::new();
        while got.len() < 2 {
            rx.recv_batch(&mut got, 4).expect("`keep_open` keeps the channel open");
        }
        assert_eq!(got, [1, 2]);
        sender.join().expect("sender");
        drop(keep_open);
        assert_eq!(rx.recv_batch(&mut got, 4), Err(RecvError));
    });
}
