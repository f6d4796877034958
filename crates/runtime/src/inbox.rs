//! The coordinator's inbox: a ledger of running totals per in-flight
//! broadcast, behind one mutex, that rings at milestones only.
//!
//! The coordinator opens an account when it admits a broadcast. A
//! worker posts its batch's deltas, one per broadcast id, under one
//! lock acquisition per batch; the coordinator reads the totals when it
//! wakes. Nothing is queued: a post adds into the account it names, or
//! is dropped once that broadcast has retired.
//!
//! A post rings the bell only when it reaches one of an account's two
//! milestones, each once: it colors the last live rank (and stamps the
//! broadcast's latency, so that latency does not wait for the
//! coordinator to be scheduled), or it makes the broadcast retirable by
//! its [`Rule`]. A broadcast thus costs the coordinator at most two
//! wake-ups, however many batches report on it — and with as many
//! workers as cores, every coordinator wake-up takes a core from a
//! worker. A milestone reached while the coordinator is awake is kept
//! for its next wait; a wait that times out reads the totals all the
//! same.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::pubsub::Rule;

/// A worker's deltas for one batch, or an account's running totals:
/// `sent` messages pushed (the broadcast's message count), `consumed`
/// messages taken off mailboxes (delivered or dead-dropped), `done`
/// ranks whose protocol first reported `SendPoll::Done`, `colored`
/// ranks first colored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) sent: u64,
    pub(crate) consumed: u64,
    pub(crate) done: u32,
    pub(crate) colored: u32,
}

impl Counts {
    pub(crate) fn add(&mut self, d: &Counts) {
        self.sent += d.sent;
        self.consumed += d.consumed;
        self.done += d.done;
        self.colored += d.colored;
    }
}

/// One in-flight broadcast's account.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Account {
    pub(crate) id: u64,
    pub(crate) live: u32,
    pub(crate) rule: Rule,
    pub(crate) totals: Counts,
    /// When the post that colored the last live rank landed.
    pub(crate) colored_at: Option<Instant>,
    /// Set by the first post after which [`Account::meets_rule`] held.
    pub(crate) retirable: bool,
}

impl Account {
    /// Whether its rule retires it on the totals posted so far: every
    /// live rank colored and, for a single broadcast, `sent ≥ consumed`
    /// (a batch posts its sends with its colorings, so every message
    /// that colored a rank is counted once its sender has posted too);
    /// for a pub/sub one, every live rank done and nothing in flight.
    fn meets_rule(&self) -> bool {
        let t = &self.totals;
        let colored = t.colored == self.live;
        match self.rule {
            Rule::Colored => colored && t.sent >= t.consumed,
            Rule::Quiescent => colored && t.done == self.live && t.sent == t.consumed,
        }
    }
}

/// Every worker has exited: nothing will post again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Disconnected;

#[derive(Default)]
struct State {
    accounts: Vec<Account>,
    /// A milestone was reached since the coordinator last read.
    rung: bool,
    /// The coordinator is asleep on the bell.
    waiting: bool,
    /// Posts since the coordinator last read.
    unread: usize,
    /// Workers still running; the last one out rings the bell.
    workers: usize,
    /// Milestones reached, for tests to bound the wake-ups by.
    #[cfg(test)]
    rings: u64,
}

pub(crate) struct Ledger {
    state: Mutex<State>,
    bell: Condvar,
}

impl Ledger {
    /// An empty ledger fed by `workers` worker threads.
    pub(crate) fn new(workers: usize) -> Ledger {
        let state = State {
            workers,
            ..State::default()
        };
        Ledger {
            state: Mutex::new(state),
            bell: Condvar::new(),
        }
    }

    /// No caller code runs under this lock, so a poisoned one still
    /// guards consistent totals.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open broadcast `id`'s account, before any rank can post to it,
    /// and return it as it opened: retirable already when `live` is 0.
    pub(crate) fn open(&self, id: u64, live: u32, rule: Rule) -> Account {
        let mut account = Account {
            id,
            live,
            rule,
            totals: Counts::default(),
            colored_at: None,
            retirable: false,
        };
        account.retirable = account.meets_rule();
        self.lock().accounts.push(account);
        account
    }

    /// Close broadcast `id`'s account and return it as it closed: later
    /// posts to it are dropped.
    pub(crate) fn close(&self, id: u64) -> Option<Account> {
        let mut st = self.lock();
        let i = st.accounts.iter().position(|a| a.id == id)?;
        Some(st.accounts.swap_remove(i))
    }

    /// Add a batch's `(id, deltas)`; ring if an account reached a
    /// milestone.
    pub(crate) fn post(&self, deltas: &[(u64, Counts)]) {
        let mut st = self.lock();
        st.unread += 1;
        let mut ring = false;
        for (id, d) in deltas {
            let Some(a) = st.accounts.iter_mut().find(|a| a.id == *id) else {
                continue;
            };
            let was_colored = a.totals.colored == a.live;
            a.totals.add(d);
            if !was_colored && a.totals.colored == a.live {
                a.colored_at = Some(Instant::now());
                ring = true;
            }
            if !a.retirable && a.meets_rule() {
                a.retirable = true;
                ring = true;
            }
        }
        if !ring {
            return;
        }
        st.rung = true;
        #[cfg(test)]
        {
            st.rings += 1;
        }
        let wake = std::mem::take(&mut st.waiting);
        drop(st);
        if wake {
            self.bell.notify_one();
        }
    }

    /// Sleep until a milestone rings or `until` passes, unless one rang
    /// since the last read; then hand every open account to `read`.
    pub(crate) fn wait(
        &self,
        until: Instant,
        read: impl FnMut(&Account),
    ) -> Result<(), Disconnected> {
        let mut st = self.lock();
        while !st.rung && st.workers > 0 {
            let now = Instant::now();
            if now >= until {
                break;
            }
            st.waiting = true;
            st = self
                .bell
                .wait_timeout(st, until - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.waiting = false;
        }
        if st.workers == 0 {
            return Err(Disconnected);
        }
        st.rung = false;
        st.unread = 0;
        st.accounts.iter().for_each(read);
        Ok(())
    }

    /// Posts the coordinator has not read (a point-in-time snapshot).
    pub(crate) fn unread(&self) -> usize {
        self.lock().unread
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

    /// Milestones reached so far.
    #[cfg(test)]
    pub(crate) fn rings(&self) -> u64 {
        self.lock().rings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn counts(sent: u64, consumed: u64, done: u32, colored: u32) -> Counts {
        Counts {
            sent,
            consumed,
            done,
            colored,
        }
    }

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    /// The totals of every open account, as one wait reads them.
    fn read(ledger: &Ledger, ms: u64) -> Vec<Account> {
        let mut seen = Vec::new();
        ledger.wait(soon(ms), |a| seen.push(*a)).unwrap();
        seen
    }

    #[test]
    fn a_post_below_a_milestone_does_not_ring() {
        let ledger = Ledger::new(1);
        ledger.open(1, 4, Rule::Quiescent);
        ledger.post(&[(1, counts(3, 2, 1, 3))]);
        ledger.post(&[(1, counts(0, 1, 2, 0))]);
        assert_eq!(ledger.rings(), 0);
        assert_eq!(ledger.unread(), 2);
        let start = Instant::now();
        let seen = read(&ledger, 40);
        assert!(start.elapsed() >= Duration::from_millis(40), "no bell");
        assert_eq!(seen[0].totals, counts(3, 3, 3, 3));
        assert_eq!((seen[0].colored_at, seen[0].retirable), (None, false));
        assert_eq!(ledger.unread(), 0);
    }

    #[test]
    fn the_coloring_post_and_the_retiring_post_ring_once_each() {
        let ledger = Ledger::new(1);
        ledger.open(7, 3, Rule::Colored);
        // The last coloring is reported before its sender's send:
        // colored, but fenced off by `sent < consumed`.
        ledger.post(&[(7, counts(0, 2, 0, 3))]);
        assert_eq!(ledger.rings(), 1);
        let seen = read(&ledger, 5_000);
        assert!(seen[0].colored_at.is_some() && !seen[0].retirable);
        ledger.post(&[(7, counts(1, 0, 0, 0))]);
        assert_eq!(ledger.rings(), 1);
        ledger.post(&[(7, counts(1, 0, 0, 0))]);
        assert_eq!(ledger.rings(), 2);
        let seen = read(&ledger, 5_000);
        assert!(seen[0].retirable);
        assert_eq!(seen[0].totals.sent, 2);
        // Past both milestones nothing rings again.
        ledger.post(&[(7, counts(5, 5, 3, 0))]);
        assert_eq!(ledger.rings(), 2);
        assert_eq!(ledger.close(7).map(|a| a.totals), Some(counts(7, 7, 3, 3)));
    }

    #[test]
    fn a_sleeping_coordinator_is_woken_by_the_ring_alone() {
        let ledger = Arc::new(Ledger::new(1));
        ledger.open(4, 2, Rule::Quiescent);
        let poster = Arc::clone(&ledger);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            poster.post(&[(4, counts(1, 1, 2, 1))]);
            std::thread::sleep(Duration::from_millis(50));
            poster.post(&[(4, counts(0, 0, 0, 1))]);
        });
        let start = Instant::now();
        let seen = read(&ledger, 5_000);
        // The first post reaches no milestone; the second reaches both.
        assert!(start.elapsed() >= Duration::from_millis(70));
        assert!(start.elapsed() < Duration::from_millis(2_500));
        assert!(seen[0].retirable);
        h.join().unwrap();
    }

    #[test]
    fn one_post_reaching_both_milestones_rings_once() {
        let ledger = Ledger::new(1);
        ledger.open(2, 2, Rule::Colored);
        ledger.post(&[(2, counts(1, 1, 0, 2))]);
        assert_eq!(ledger.rings(), 1);
        // Kept for the next wait, which returns at once.
        let start = Instant::now();
        let seen = read(&ledger, 5_000);
        assert!(start.elapsed() < Duration::from_millis(1_000));
        assert!(seen[0].retirable);
    }

    #[test]
    fn a_wait_that_times_out_still_returns_the_latest_totals() {
        let ledger = Arc::new(Ledger::new(1));
        ledger.open(1, 8, Rule::Quiescent);
        ledger.open(2, 8, Rule::Quiescent);
        let poster = Arc::clone(&ledger);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            poster.post(&[(1, counts(4, 1, 0, 1)), (2, counts(1, 0, 0, 0))]);
        });
        let seen = read(&ledger, 80);
        h.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].totals, counts(4, 1, 0, 1));
        assert_eq!(seen[1].totals, counts(1, 0, 0, 0));
    }

    #[test]
    fn a_post_to_a_closed_account_is_dropped() {
        let ledger = Ledger::new(1);
        ledger.open(1, 1, Rule::Colored);
        assert!(ledger.close(1).is_some());
        ledger.post(&[(1, counts(1, 1, 1, 1))]);
        assert_eq!(ledger.rings(), 0);
        assert!(read(&ledger, 1).is_empty());
        assert!(ledger.close(1).is_none());
    }

    #[test]
    fn the_last_worker_out_disconnects() {
        let ledger = Arc::new(Ledger::new(2));
        ledger.worker_exited();
        assert!(ledger.wait(soon(1), |_| {}).is_ok());
        let exiting = Arc::clone(&ledger);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            exiting.worker_exited();
        });
        let start = Instant::now();
        assert_eq!(ledger.wait(soon(5_000), |_| {}), Err(Disconnected));
        assert!(start.elapsed() < Duration::from_millis(2_000));
        h.join().unwrap();
    }
}
