//! The server's send window: the frames it has written and the client
//! has not yet credited, as one pure value.
//!
//! [`SendWindow`] holds no lock, clock or socket, so every flow-control
//! and replay decision of a [`crate::WireServer`] is a method call that a
//! test can drive through any interleaving (`tests/wire_window.rs`). The
//! server thread owns one window for its whole life, across reconnects:
//! - [`SendWindow::admit`] takes a frame just written on the current
//!   connection, and refuses it once `capacity` frames are unacked;
//! - [`SendWindow::credit`] retires the oldest frames a credit covers;
//! - [`SendWindow::reconnect`] hands back, oldest first, every frame to
//!   write again on a new connection;
//! - [`SendWindow::finished`] says when the source has closed and nothing
//!   is unacked, which is when the server may say `Goodbye`.

use std::collections::vec_deque::{Iter, VecDeque};

/// The unacked ring of a wire server, generic over the frame it holds.
///
/// Every unacked frame has been written on the current connection: a
/// frame is admitted right after its write, and a new connection starts
/// by writing again everything [`SendWindow::reconnect`] hands back.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SendWindow<F> {
    unacked: VecDeque<F>,
    capacity: usize,
    closed: bool,
}

impl<F> SendWindow<F> {
    /// An empty window that holds at most `capacity` (at least 1) unacked
    /// frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            unacked: VecDeque::new(),
            capacity: capacity.max(1),
            closed: false,
        }
    }

    /// Whether the server may take another frame off its source: the
    /// source is open and fewer than `capacity` frames are unacked.
    pub fn has_room(&self) -> bool {
        !self.closed && self.unacked.len() < self.capacity
    }

    /// Admits a frame written on the current connection; it stays until
    /// credited.
    ///
    /// # Errors
    ///
    /// Hands the frame back, unadmitted, when the window has no room.
    pub fn admit(&mut self, frame: F) -> Result<(), F> {
        if !self.has_room() {
            return Err(frame);
        }
        self.unacked.push_back(frame);
        Ok(())
    }

    /// Retires the oldest `min(n, unacked)` frames and returns how many
    /// went. Every unacked frame was written on this connection, so a
    /// count past them retires nothing unwritten, and the excess is
    /// dropped rather than kept for frames admitted later.
    pub fn credit(&mut self, n: u64) -> usize {
        let retired = n.min(self.unacked.len() as u64) as usize;
        self.unacked.drain(..retired);
        retired
    }

    /// A new connection: every unacked frame, in admission order, to
    /// write on it before anything else. They stay unacked until credited
    /// on it.
    pub fn reconnect(&self) -> Iter<'_, F> {
        self.unacked.iter()
    }

    /// The source has closed: no frame is admitted from now on.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The source has closed and every admitted frame was credited.
    pub fn finished(&self) -> bool {
        self.closed && self.unacked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_credit_retires_only_what_was_written_and_banks_nothing() {
        let mut w = SendWindow::new(3);
        for f in 0..3 {
            assert_eq!(w.admit(f), Ok(()));
        }
        assert_eq!(w.admit(3), Err(3), "a full window refuses");
        assert_eq!(w.credit(1), 1);
        assert_eq!(w.credit(u64::MAX), 2);
        assert_eq!(w.admit(3), Ok(()));
        assert_eq!(w.reconnect().copied().collect::<Vec<_>>(), [3]);
        w.close();
        assert!(!w.has_room() && !w.finished());
        assert_eq!(w.credit(1), 1);
        assert!(w.finished());
    }
}
