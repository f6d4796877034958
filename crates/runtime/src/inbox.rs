//! The coordinator's inbox: worker → coordinator notifications behind
//! one mutex, with a wake-up threshold.
//!
//! Workers push a batch's notifications ([`CoordMsg`]) and the
//! coordinator pops them, like a channel. What the inbox adds is *when
//! the coordinator is woken*: a coordinator about to sleep names the
//! fewest rank reports — ranks newly colored, machines newly done —
//! that could let some in-flight broadcast retire, and a push rings the
//! condvar only once that many are queued (0 = any message, once some
//! broadcast has all it needs but the balance of its counts). A single
//! broadcast's coordinator therefore sleeps through it and is woken
//! once, by the push that completes it, instead of once per worker
//! batch; a pub/sub broadcast wakes it per batch only once all its
//! ranks are colored and done. That matters beyond the syscalls saved: with
//! as many workers as cores, every coordinator wake-up takes a core
//! from a worker, and how the kernel then places the three threads
//! decided whether a plain P=1024 broadcast took 290 µs or 490 µs, for
//! seconds at a time.
//!
//! Queued messages are never lost to the threshold: a wait that times
//! out returns them before it reports [`RecvError::Timeout`], and a
//! stale message of an earlier broadcast can only ring early.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ct_logp::Rank;

/// Worker → coordinator notifications (batched per scheduling quantum).
pub(crate) enum CoordMsg {
    /// `ranks` became colored in broadcast `id`.
    Colored { id: u64, ranks: Vec<Rank> },
    /// Quiescence-tracking deltas for broadcast `id`, accumulated over a
    /// scheduling quantum: `sent` messages pushed, `consumed` messages
    /// taken off mailboxes (delivered or dead-dropped), `done` live
    /// ranks whose protocol reported `SendPoll::Done` for the first
    /// time. Their `sent` sum is the broadcast's message count. A
    /// pub/sub broadcast retires when
    /// `colored == live && done == live && sent == consumed` — every
    /// live rank colored, every protocol machine finished, no message
    /// still in flight — which keeps per-broadcast message totals exact
    /// instead of truncating machines mid-correction at retirement. A
    /// single broadcast retires on coloring, fenced by
    /// `sent ≥ consumed`: a worker pushes a batch's deltas before its
    /// [`CoordMsg::Colored`], so every message that colored a rank is
    /// counted once its sender has reported too.
    Progress {
        id: u64,
        sent: u64,
        consumed: u64,
        done: u32,
    },
}

impl CoordMsg {
    /// Ranks this message reports colored or done: what the wake-up
    /// threshold counts.
    fn reports(&self) -> u64 {
        match self {
            CoordMsg::Colored { ranks, .. } => ranks.len() as u64,
            CoordMsg::Progress { done, .. } => u64::from(*done),
        }
    }
}

/// Why [`Inbox::recv`] returned no message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecvError {
    /// The deadline passed with nothing queued.
    Timeout,
    /// Every worker has exited and the queue is drained.
    Disconnected,
}

struct State {
    msgs: VecDeque<CoordMsg>,
    /// Rank reports ([`CoordMsg::reports`]) of the messages in `msgs`.
    reports: u64,
    /// The coordinator is asleep and wants the bell once `reports`
    /// reaches `wake_at`; cleared by the push that rings it, so one
    /// sleep costs one `notify`.
    waiting: bool,
    wake_at: u64,
    /// Workers still running; the last one out rings the bell.
    workers: usize,
}

pub(crate) struct Inbox {
    state: Mutex<State>,
    bell: Condvar,
}

impl Inbox {
    /// An empty inbox fed by `workers` worker threads.
    pub(crate) fn new(workers: usize) -> Inbox {
        Inbox {
            state: Mutex::new(State {
                msgs: VecDeque::new(),
                reports: 0,
                waiting: false,
                wake_at: 0,
                workers,
            }),
            bell: Condvar::new(),
        }
    }

    /// No caller code runs under this lock, so a poisoned one still
    /// guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `msg`; wake the coordinator if that is what it waits for.
    pub(crate) fn push(&self, msg: CoordMsg) {
        let mut st = self.lock();
        st.reports += msg.reports();
        st.msgs.push_back(msg);
        let ring = st.waiting && st.reports >= st.wake_at;
        if ring {
            st.waiting = false;
        }
        drop(st);
        if ring {
            self.bell.notify_one();
        }
    }

    /// The oldest queued message; with none queued, sleep until `until`
    /// or until the queue holds `need` rank reports (0: holds any
    /// message), whichever is first.
    pub(crate) fn recv(&self, until: Instant, need: u64) -> Result<CoordMsg, RecvError> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.msgs.pop_front() {
                st.reports -= msg.reports();
                return Ok(msg);
            }
            if st.workers == 0 {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= until {
                return Err(RecvError::Timeout);
            }
            st.waiting = true;
            st.wake_at = need;
            st = self
                .bell
                .wait_timeout(st, until - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.waiting = false;
        }
    }

    /// Messages currently queued (a point-in-time snapshot).
    pub(crate) fn len(&self) -> usize {
        self.lock().msgs.len()
    }

    /// A worker thread is gone (shutdown or panic): the last one out
    /// wakes the coordinator so it observes the disconnect.
    pub(crate) fn worker_exited(&self) {
        let mut st = self.lock();
        st.workers -= 1;
        let last = st.workers == 0;
        drop(st);
        if last {
            self.bell.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn colored(id: u64, n: u32) -> CoordMsg {
        CoordMsg::Colored {
            id,
            ranks: (0..n).collect(),
        }
    }

    fn progress(id: u64) -> CoordMsg {
        CoordMsg::Progress {
            id,
            sent: 1,
            consumed: 1,
            done: 0,
        }
    }

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn pops_in_push_order_then_times_out() {
        let inbox = Inbox::new(1);
        inbox.push(colored(1, 2));
        inbox.push(progress(1));
        assert_eq!(inbox.len(), 2);
        assert!(matches!(
            inbox.recv(soon(10), 5),
            Ok(CoordMsg::Colored { id: 1, .. })
        ));
        assert!(matches!(
            inbox.recv(soon(10), 5),
            Ok(CoordMsg::Progress { id: 1, .. })
        ));
        assert_eq!(inbox.recv(soon(10), 5).err(), Some(RecvError::Timeout));
    }

    #[test]
    fn sleeper_is_woken_by_the_push_that_reaches_its_need() {
        let inbox = Arc::new(Inbox::new(1));
        let pusher = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pusher.push(colored(7, 3));
            pusher.push(progress(7));
            std::thread::sleep(Duration::from_millis(150));
            pusher.push(colored(7, 2));
        });
        let start = Instant::now();
        let first = inbox.recv(soon(5_000), 5);
        // Three of five colored and a progress delta do not ring; the
        // push that brings the fifth does, and nothing queued is lost.
        assert!(start.elapsed() >= Duration::from_millis(150));
        assert!(matches!(first, Ok(CoordMsg::Colored { id: 7, ref ranks }) if ranks.len() == 3));
        assert!(matches!(
            inbox.recv(soon(10), 2),
            Ok(CoordMsg::Progress { .. })
        ));
        assert!(matches!(
            inbox.recv(soon(10), 2),
            Ok(CoordMsg::Colored { ref ranks, .. }) if ranks.len() == 2
        ));
        h.join().unwrap();
    }

    #[test]
    fn machines_reported_done_count_towards_the_need() {
        let inbox = Arc::new(Inbox::new(1));
        let pusher = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pusher.push(colored(4, 2));
            pusher.push(progress(4));
            std::thread::sleep(Duration::from_millis(150));
            pusher.push(CoordMsg::Progress {
                id: 4,
                sent: 0,
                consumed: 0,
                done: 2,
            });
        });
        let start = Instant::now();
        // Two colored and a delta with no machine done do not reach
        // four; the delta that reports two machines done does.
        assert!(matches!(
            inbox.recv(soon(5_000), 4),
            Ok(CoordMsg::Colored { id: 4, .. })
        ));
        assert!(start.elapsed() >= Duration::from_millis(150));
        h.join().unwrap();
    }

    #[test]
    fn need_zero_wakes_on_any_message() {
        let inbox = Arc::new(Inbox::new(1));
        let pusher = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pusher.push(progress(3));
        });
        let start = Instant::now();
        assert!(matches!(
            inbox.recv(soon(5_000), 0),
            Ok(CoordMsg::Progress { id: 3, .. })
        ));
        assert!(start.elapsed() < Duration::from_millis(2_000));
        h.join().unwrap();
    }

    #[test]
    fn a_timed_out_wait_hands_over_what_was_queued_below_the_need() {
        let inbox = Arc::new(Inbox::new(1));
        let pusher = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            pusher.push(colored(1, 1));
        });
        // One of four: no bell, but the deadline still delivers it.
        assert!(matches!(
            inbox.recv(soon(80), 4),
            Ok(CoordMsg::Colored { id: 1, .. })
        ));
        assert_eq!(inbox.recv(soon(5), 3).err(), Some(RecvError::Timeout));
        h.join().unwrap();
    }

    #[test]
    fn last_worker_out_disconnects_after_the_queue_drains() {
        let inbox = Arc::new(Inbox::new(2));
        inbox.push(progress(1));
        inbox.worker_exited();
        let exiting = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            exiting.worker_exited();
        });
        assert!(inbox.recv(soon(5_000), 9).is_ok());
        let start = Instant::now();
        assert_eq!(
            inbox.recv(soon(5_000), 9).err(),
            Some(RecvError::Disconnected)
        );
        assert!(start.elapsed() < Duration::from_millis(2_000));
        h.join().unwrap();
    }
}
