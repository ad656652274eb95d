//! A vendored-minimal async executor with a deterministic task queue.
//!
//! The registry is offline, so the serving layer cannot pull in tokio;
//! instead it runs its request futures on this ~200-line executor. The
//! design constraints, in order:
//!
//! * **Determinism.** The ready queue is a FIFO `VecDeque`: tasks run in the
//!   order they became ready, so a single-threaded drive of the executor is a
//!   pure function of the spawn/wake order. No clocks, no timers, no
//!   randomized work stealing — time-based scheduling lives *outside* the
//!   executor (the service maps deadlines onto I/O budgets instead, and the
//!   load generator owns its own clock).
//! * **Cooperative tasks.** A task is a boxed future polled to completion;
//!   wakers re-enqueue their task at the back of the queue. An atomic
//!   `queued` flag per task coalesces concurrent wakes so a task sits in the
//!   queue at most once.
//! * **One drive mode, on the caller's thread.** [`Executor::run_until_idle`]
//!   drains the queue on the calling thread; [`Executor::run_one`] polls a
//!   single task, letting an event loop interleave its own work (the load
//!   generator's open-loop arrival schedule) with task progress. Parallelism
//!   lives inside a task instead: the service's scatter runs a request's
//!   shards on scoped threads and joins them before the task's poll returns.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// The shared executor state: the FIFO ready queue.
struct Inner {
    queue: Mutex<VecDeque<Arc<Task>>>,
}

/// One spawned task: its future plus the queue it re-enqueues into on wake.
struct Task {
    inner: Weak<Inner>,
    future: Mutex<Option<BoxFuture>>,
    /// Whether the task is already sitting in the ready queue (or about to
    /// be polled); coalesces concurrent wakes to at most one queue entry.
    queued: AtomicBool,
}

impl Task {
    /// Enqueues the task unless it is already queued (or its executor is
    /// gone).
    fn enqueue(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(inner) = self.inner.upgrade() {
            inner.queue.lock().push_back(self.clone());
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.enqueue();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.enqueue();
    }
}

/// The result slot a [`JoinHandle`] awaits on.
struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Awaitable (or pollable) handle to a spawned task's result.
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (its value may already be taken).
    pub fn is_finished(&self) -> bool {
        self.state.lock().finished
    }

    /// Takes the result if the task has finished, without blocking.
    pub fn try_take(&self) -> Option<T> {
        self.state.lock().value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut state = self.state.lock();
        if let Some(value) = state.value.take() {
            return Poll::Ready(value);
        }
        // Re-registering on every poll keeps the latest waker current.
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// The deterministic FIFO executor. Cheap to clone (a handle onto the shared
/// queue); spawning from inside a task works through the same handle.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<Inner>,
}

impl Executor {
    /// A fresh executor with an empty ready queue.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                queue: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Spawns a future onto the ready queue and returns a handle to its
    /// result. The task runs when the executor is driven — spawning alone
    /// performs no work.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let state = Arc::new(Mutex::new(JoinState {
            value: None,
            waker: None,
            finished: false,
        }));
        let handle_state = state.clone();
        let wrapped = async move {
            let value = future.await;
            let waker = {
                let mut s = state.lock();
                s.value = Some(value);
                s.finished = true;
                s.waker.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
        };
        let task = Arc::new(Task {
            inner: Arc::downgrade(&self.inner),
            future: Mutex::new(Some(Box::pin(wrapped))),
            // Spawned directly into the queue below, so born queued.
            queued: AtomicBool::new(true),
        });
        self.inner.queue.lock().push_back(task);
        JoinHandle {
            state: handle_state,
        }
    }

    /// Pops and polls one ready task on the calling thread. Returns `false`
    /// when the queue was empty (tasks may still be pending on wakers held
    /// elsewhere).
    pub fn run_one(&self) -> bool {
        let task = match self.inner.queue.lock().pop_front() {
            Some(task) => task,
            None => return false,
        };
        // Clear `queued` *before* polling: a wake arriving during the poll
        // (from another thread) must be able to re-enqueue the task.
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        // Holding the future's lock across the poll is safe: a concurrent
        // wake only touches the queue, never the future slot.
        let mut slot = task.future.lock();
        if let Some(future) = slot.as_mut() {
            if future.as_mut().poll(&mut cx).is_ready() {
                *slot = None;
            }
        }
        true
    }

    /// Drains the ready queue on the calling thread, running every task that
    /// is or becomes ready, in FIFO order, until none is. For a fixed
    /// spawn/wake script the poll sequence is always the same.
    pub fn run_until_idle(&self) {
        while self.run_one() {}
    }

    /// The number of tasks currently in the ready queue.
    pub fn ready_tasks(&self) -> usize {
        self.inner.queue.lock().len()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

/// A future that suspends once and re-enqueues its task at the back of the
/// FIFO queue: the executor's cooperative yield point, letting every
/// already-ready task run before the yielding one resumes.
pub struct YieldNow {
    yielded: bool,
}

/// Suspends the current task once, re-queueing it behind already-ready tasks.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_tasks_run_in_fifo_order() {
        let ex = Executor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let order = order.clone();
            ex.spawn(async move {
                order.lock().push(i);
            });
        }
        assert_eq!(ex.ready_tasks(), 5);
        ex.run_until_idle();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
        assert_eq!(ex.ready_tasks(), 0);
    }

    #[test]
    fn join_handles_deliver_values_and_support_polling() {
        let ex = Executor::new();
        let h = ex.spawn(async { 6 * 7 });
        assert!(!h.is_finished());
        ex.run_until_idle();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some(42));
        assert_eq!(h.try_take(), None, "a value is taken once");
    }

    #[test]
    fn awaiting_a_join_handle_wakes_the_awaiter() {
        let ex = Executor::new();
        let inner = ex.spawn(async { "done" });
        // An extra yield keeps the outer future a genuine two-step state
        // machine (and quiets clippy's redundant-async lint).
        let outer = ex.spawn(async move {
            yield_now().await;
            inner.await
        });
        ex.run_until_idle();
        // `outer` polled first (FIFO), parked on `inner`'s waker, and was
        // woken when `inner` finished — all inside one drain.
        assert_eq!(outer.try_take(), Some("done"));
    }

    #[test]
    fn yield_now_requeues_behind_ready_tasks() {
        let ex = Executor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let order = order.clone();
            ex.spawn(async move {
                order.lock().push("a-before");
                yield_now().await;
                order.lock().push("a-after");
            });
        }
        {
            let order = order.clone();
            ex.spawn(async move {
                order.lock().push("b");
            });
        }
        ex.run_until_idle();
        assert_eq!(*order.lock(), vec!["a-before", "b", "a-after"]);
    }

    #[test]
    fn run_one_interleaves_with_caller_work() {
        let ex = Executor::new();
        let h1 = ex.spawn(async { 1 });
        let h2 = ex.spawn(async { 2 });
        assert!(ex.run_one());
        assert!(h1.is_finished());
        assert!(!h2.is_finished());
        assert!(ex.run_one());
        assert!(h2.is_finished());
        assert!(!ex.run_one(), "queue drained");
    }

    #[test]
    fn concurrent_wakes_coalesce_to_one_queue_entry() {
        let ex = Executor::new();
        let h = ex.spawn(async {});
        // The spawned task is queued once; waking it again must not enqueue
        // a duplicate.
        let task = ex.inner.queue.lock().front().cloned().unwrap();
        task.enqueue();
        task.enqueue();
        assert_eq!(ex.ready_tasks(), 1);
        ex.run_until_idle();
        assert!(h.is_finished());
    }
}
