//! Cross-thread wakeup for an I/O thread parked in `epoll_wait`.

use std::io;
use std::os::unix::io::RawFd;

use crate::sys;

/// An eventfd-backed waker.
///
/// The owning I/O thread registers the fd (level-triggered) in its epoll and
/// calls [`Waker::drain`] when it fires; any other thread calls
/// [`Waker::wake`] to pull it out of `epoll_wait`. This is how shard replies
/// reach a connection owned by a sleeping I/O thread: post the message, ring
/// the eventfd.
///
/// Wakes coalesce twice: the reactor's inbox rings the eventfd only for the
/// first post since the loop last took it, and the kernel counter folds any
/// remaining writes — a thousand replies landing while the loop is busy
/// cost one write and one drain, not a thousand turns.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a new waker with an empty counter.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: sys::eventfd_new()?,
        })
    }

    /// The fd to register in the owning thread's epoll.
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the waker. Never blocks; a saturated counter already implies a
    /// pending wakeup, so saturation is silently fine.
    pub fn wake(&self) {
        sys::eventfd_write(self.fd);
    }

    /// Resets the counter so the next [`Waker::wake`] fires again.
    pub fn drain(&self) {
        sys::eventfd_drain(self.fd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Epoll, Events, Interest};
    use std::time::Duration;

    #[test]
    fn wake_fires_epoll_and_drain_resets() {
        let waker = Waker::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(waker.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut events = Events::with_capacity(4);

        ep.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        waker.wake();
        waker.wake(); // coalesces
        ep.wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(events.iter().next().unwrap().token, 42);

        waker.drain();
        ep.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn wake_from_another_thread() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let ep = Epoll::new().unwrap();
        ep.add(waker.as_raw_fd(), 1, Interest::READ).unwrap();
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || remote.wake());
        let mut events = Events::with_capacity(4);
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        t.join().unwrap();
    }
}
