//! The one ordered two-stage driver behind write, restart and streamed
//! restart, and the one bounded-retry helper their attempts go through.
//!
//! ```text
//! producers ──► bounded reorder window ──► workers ──► ordered commit
//!  produce(seq)   at most `depth` items     work(seq)    commit(0), commit(1), …
//! ```
//!
//! Producers make item `seq` in any order and block once `seq` runs
//! `depth` ahead of the next uncommitted item (backpressure). Workers take
//! items strictly in sequence, transform them in parallel, and commit the
//! results one at a time in sequence order. The first error from any
//! closure stops every thread and is what [`run_stage`] returns.

use crate::error::{CoreError, PipelineError};
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// Run `op` until it succeeds, at most `attempts` times, sleeping
/// `backoff_ms × attempt` between tries. `injected` is the
/// [`FailurePlan`](super::FailurePlan) list for this operation: an attempt
/// listed there fails without running `op`. Returns the value and the
/// number of retries that preceded it, or the typed error naming `seq`
/// and the last failure once the budget is spent.
pub(super) fn retry<T, E: std::fmt::Display>(
    what: &str,
    seq: usize,
    attempts: u32,
    backoff_ms: u64,
    injected: &[(usize, u32)],
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<(T, u64), CoreError> {
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 && backoff_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms * attempt as u64));
        }
        if injected.contains(&(seq, attempt)) {
            last = format!("injected {what} failure (worker died)");
            continue;
        }
        match op() {
            Ok(v) => return Ok((v, attempt as u64)),
            Err(e) => last = e.to_string(),
        }
    }
    Err(CoreError::Pipeline(PipelineError::new(
        seq,
        attempts,
        format!("{what} failed after {attempts} attempts: {last}"),
    )))
}

/// What one `produce` call returns: the item, `None` at the end of the
/// stream, or the error that stops the run.
pub(super) type Produced<T> = Result<Option<T>, CoreError>;

/// Where a stage's items come from. `produce(seq, tally)` makes item
/// `seq`, or returns `None` at the end of the stream; once it has
/// returned `None` for some `seq` it must do so for every later one.
pub(super) enum Source<'a, T, A> {
    /// `threads` spawned producers share the closure and draw sequence
    /// numbers from a common cursor (random-access input).
    Shared {
        threads: usize,
        /// Trace span opened around each producer thread.
        span: &'static str,
        produce: &'a (dyn Fn(usize, &mut A) -> Produced<T> + Sync),
    },
    /// The calling thread is the only producer: a forward-only reader can
    /// be neither shared nor sent to another thread.
    Caller(&'a mut dyn FnMut(usize, &mut A) -> Produced<T>),
}

/// The ordered-commit monitor: everything the threads of one run share.
struct Stage<T> {
    state: Mutex<State<T>>,
    /// Signalled on every state change; each waiter re-checks its own
    /// condition (window space, next item, commit turn).
    changed: Condvar,
    depth: usize,
}

struct State<T> {
    /// Produced items no worker has taken yet.
    slots: BTreeMap<usize, T>,
    /// Next sequence number handed to a producer.
    next_seq: usize,
    /// Next sequence number a worker takes.
    next_take: usize,
    /// Next sequence number allowed to commit. Items in
    /// `next_commit..next_commit + depth` are the window.
    next_commit: usize,
    /// One past the last item; `usize::MAX` until a producer hits the end.
    total: usize,
    /// The first failure. Once set, every thread stops.
    failed: Option<CoreError>,
}

impl<T> Stage<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("stage lock")
    }

    /// Record the first failure and wake everyone.
    fn fail(&self, e: CoreError) {
        self.lock().failed.get_or_insert(e);
        self.changed.notify_all();
    }

    /// Producer thread body: draw a sequence number, make the item, wait
    /// for window space, store it.
    fn produce_loop<A>(
        &self,
        mut produce: impl FnMut(usize, &mut A) -> Produced<T>,
        tally: &mut A,
    ) {
        loop {
            let seq = {
                let mut st = self.lock();
                if st.failed.is_some() || st.next_seq >= st.total {
                    return;
                }
                st.next_seq += 1;
                st.next_seq - 1
            };
            let item = match produce(seq, tally) {
                Ok(item) => item,
                Err(e) => return self.fail(e),
            };
            let mut st = self.lock();
            let Some(item) = item else {
                st.total = st.total.min(seq);
                self.changed.notify_all();
                return;
            };
            while st.failed.is_none() && seq >= st.next_commit + self.depth {
                lcpio_trace::counter_add("pipeline.backpressure_waits", 1);
                st = self.changed.wait(st).expect("stage lock");
            }
            if st.failed.is_some() {
                return;
            }
            st.slots.insert(seq, item);
            self.changed.notify_all();
        }
    }

    /// Block until the next in-order item is available; `None` once the
    /// stream is complete or the run has failed.
    fn take(&self) -> Option<(usize, T)> {
        let mut st = self.lock();
        loop {
            if st.failed.is_some() || st.next_take >= st.total {
                return None;
            }
            let seq = st.next_take;
            if let Some(item) = st.slots.remove(&seq) {
                st.next_take += 1;
                return Some((seq, item));
            }
            st = self.changed.wait(st).expect("stage lock");
        }
    }

    /// Worker thread body: take the next item, transform it, wait for its
    /// commit turn, commit, release its window slot.
    fn work_loop<V, A>(
        &self,
        work: impl Fn(usize, T, &mut A) -> Result<V, CoreError>,
        // Never contended: only the thread whose turn it is locks it. The
        // mutex is what lets one `FnMut` be reached from every worker.
        commit: &Mutex<impl FnMut(usize, V) -> Result<(), CoreError>>,
        tally: &mut A,
    ) {
        while let Some((seq, item)) = self.take() {
            let value = match work(seq, item, tally) {
                Ok(v) => v,
                Err(e) => return self.fail(e),
            };
            {
                let mut st = self.lock();
                while st.failed.is_none() && st.next_commit != seq {
                    st = self.changed.wait(st).expect("stage lock");
                }
                if st.failed.is_some() {
                    return;
                }
            }
            if let Err(e) = (commit.lock().expect("commit lock"))(seq, value) {
                return self.fail(e);
            }
            self.lock().next_commit += 1;
            self.changed.notify_all();
        }
    }
}

/// Run one ordered two-stage pipeline to completion.
///
/// Items flow `source → work → commit` as drawn in the module docs, with
/// at most `depth` items produced but not yet committed (plus the one each
/// producer may hold while it waits for space). `workers` threads run
/// `work`, each inside a `worker_span` trace span. Every thread owns one
/// tally `A`, which its closures update without synchronisation; the
/// tallies of all threads come back for the caller to fold. `commit`
/// calls never overlap and arrive as `0, 1, 2, …`.
///
/// On the first `Err` from any closure every thread stops at its next
/// step and that error is returned.
pub(super) fn run_stage<T: Send, V, A: Default + Send>(
    depth: usize,
    source: Source<'_, T, A>,
    workers: usize,
    worker_span: &'static str,
    work: impl Fn(usize, T, &mut A) -> Result<V, CoreError> + Sync,
    commit: impl FnMut(usize, V) -> Result<(), CoreError> + Send,
) -> Result<Vec<A>, CoreError> {
    let stage = Stage {
        state: Mutex::new(State {
            slots: BTreeMap::new(),
            next_seq: 0,
            next_take: 0,
            next_commit: 0,
            total: usize::MAX,
            failed: None,
        }),
        changed: Condvar::new(),
        depth,
    };
    let commit = Mutex::new(commit);
    let (stage, work, commit) = (&stage, &work, &commit);
    let tallies = std::thread::scope(|s| {
        let mut threads = Vec::new();
        for _ in 0..workers {
            threads.push(s.spawn(move || {
                let _span = lcpio_trace::span(worker_span);
                let mut tally = A::default();
                stage.work_loop(work, commit, &mut tally);
                tally
            }));
        }
        let mut tallies = Vec::new();
        match source {
            Source::Shared { threads: producers, span, produce } => {
                for _ in 0..producers {
                    threads.push(s.spawn(move || {
                        let _span = lcpio_trace::span(span);
                        let mut tally = A::default();
                        stage.produce_loop(produce, &mut tally);
                        tally
                    }));
                }
            }
            Source::Caller(produce) => {
                let mut tally = A::default();
                stage.produce_loop(produce, &mut tally);
                tallies.push(tally);
            }
        }
        tallies.extend(threads.into_iter().map(|t| t.join().expect("stage thread panicked")));
        tallies
    });
    let failed = stage.lock().failed.take();
    failed.map_or(Ok(tallies), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic xorshift, so a failing shape can be replayed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Site {
        Produce,
        Work,
        Commit,
    }

    fn boom(site: Site, seq: usize) -> CoreError {
        CoreError::Pipeline(PipelineError::new(seq, 0, format!("boom in {site:?}")))
    }

    /// One run over `total` items. Checks the window bound and the commit
    /// order itself; returns what `run_stage` returned.
    fn run_shape(
        depth: usize,
        producers: usize,
        workers: usize,
        total: usize,
        caller_fed: bool,
        fail_at: Option<(Site, usize)>,
    ) -> Result<Vec<usize>, CoreError> {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut committed = Vec::new();
        let fails = |site, seq| fail_at == Some((site, seq));
        let produce = |seq: usize, made: &mut usize| {
            if seq >= total {
                return Ok(None);
            }
            if fails(Site::Produce, seq) {
                return Err(boom(Site::Produce, seq));
            }
            if seq.is_multiple_of(3) {
                std::thread::yield_now();
            }
            *made += 1;
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Ok(Some(seq))
        };
        let mut lead = produce;
        let source = if caller_fed {
            Source::Caller(&mut lead)
        } else {
            Source::Shared { threads: producers, span: "test.produce", produce: &produce }
        };
        let tallies = run_stage(
            depth,
            source,
            workers,
            "test.work",
            |seq, item: usize, _| {
                assert_eq!(seq, item, "workers take items under their own sequence number");
                if fails(Site::Work, seq) {
                    return Err(boom(Site::Work, seq));
                }
                if seq % 2 == 0 {
                    std::thread::yield_now();
                }
                Ok(item * 10)
            },
            |seq, value: usize| {
                assert_eq!(value, seq * 10);
                if fails(Site::Commit, seq) {
                    return Err(boom(Site::Commit, seq));
                }
                committed.push(seq);
                live.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            },
        )?;
        // (a) the window bound: `depth` items inside it, plus the one each
        // producer may be holding while it waits for space.
        let producers = if caller_fed { 1 } else { producers };
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= depth + producers, "peak {peak} > depth {depth} + producers {producers}");
        // (b) commits arrive as 0, 1, 2, …
        assert_eq!(committed, (0..total).collect::<Vec<_>>());
        assert_eq!(tallies.iter().sum::<usize>(), total, "every item booked in one tally");
        assert_eq!(tallies.len(), workers + producers, "one tally per thread");
        Ok(committed)
    }

    /// Run `body` on its own thread and fail, instead of hanging the test
    /// run, if it does not finish: a lost wake-up shows as a timeout.
    fn under_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(()) => runner.join().expect("stage test body panicked"),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                runner.join().expect("stage test body panicked")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("stage run did not finish: a thread is stuck waiting")
            }
        }
    }

    #[test]
    fn window_bound_and_commit_order_hold_for_random_shapes() {
        under_watchdog(|| {
            let mut rng = Rng(0x5EED_1357);
            for _ in 0..300 {
                let (depth, producers, workers) =
                    (1 + rng.below(6), 1 + rng.below(4), 1 + rng.below(4));
                let total = rng.below(40);
                let caller_fed = rng.below(3) == 0;
                run_shape(depth, producers, workers, total, caller_fed, None)
                    .unwrap_or_else(|e| panic!("clean run failed: {e}"));
            }
        });
    }

    #[test]
    fn first_failure_at_any_site_is_returned_and_every_thread_joins() {
        under_watchdog(|| {
            let mut rng = Rng(0xFA11_2468);
            for round in 0..300 {
                let (depth, producers, workers) =
                    (1 + rng.below(6), 1 + rng.below(4), 1 + rng.below(4));
                let total = 1 + rng.below(40);
                let site = [Site::Produce, Site::Work, Site::Commit][round % 3];
                let seq = rng.below(total);
                let caller_fed = rng.below(3) == 0;
                let shape = format!(
                    "depth {depth} producers {producers} workers {workers} total {total} \
                     caller_fed {caller_fed} failing {site:?} at {seq}"
                );
                match run_shape(depth, producers, workers, total, caller_fed, Some((site, seq))) {
                    Err(e) => assert_eq!(e, boom(site, seq), "{shape}"),
                    Ok(_) => panic!("injected failure was swallowed: {shape}"),
                }
            }
        });
    }

    #[test]
    fn retry_spends_its_budget_then_names_the_last_failure() {
        let mut calls = 0;
        let ok = retry("write", 3, 3, 0, &[(3, 0)], || {
            calls += 1;
            if calls == 1 { Err("disk full") } else { Ok(calls) }
        });
        assert_eq!(ok.expect("third attempt succeeds"), (2, 2), "one injected + one real failure");
        let err = retry("read", 5, 2, 0, &[], || Err::<(), _>("gone")).expect_err("budget spent");
        let CoreError::Pipeline(p) = err else { panic!("typed pipeline error") };
        assert_eq!((p.chunk, p.attempts), (5, 2));
        assert_eq!(p.message, "read failed after 2 attempts: gone");
    }
}
